"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE CHANGE [--bench BENCHMARK.json]

BASE and CHANGE are directories of run records (the .json files run.py
writes to .perfbench/runs/) or single record files. For every workload and
metric, prints each side's median and quartiles and a verdict:

- better: the change wins at least 9 of 10 (base, change) pairs and its
  median moved by more than the base's own quartile spread;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
- same: neither, and both spreads are within the bound;
- unresolved: the spread of either side is wider than the bound (unless
  every change run beats every base run), or, for per-layer metrics,
  which have no bound, neither better nor worse by the rule above.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _rel(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.inf


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None = None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    qb, qc = quartiles(base), quartiles(change)
    mb, mc = statistics.median(base), statistics.median(change)
    gain = sign * _rel(mc - mb, mb)
    spread_b = _rel(qb[2] - qb[0], mb)
    spread_c = _rel(qc[2] - qc[0], mc)
    diffs = [sign * (c - b) for b in base for c in change]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    if bound is not None:
        if max(spread_b, spread_c) > bound:
            return "better" if wins == len(diffs) else "unresolved"
        if gain < -bound:
            return "worse"
    if wins >= 0.9 * len(diffs) and gain > spread_b:
        return "better"
    if bound is not None or not (wins or losses):
        return "same"
    if losses >= 0.9 * len(diffs) and -gain > spread_b:
        return "worse"
    return "unresolved"


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def table(base: list[dict], change: list[dict], bench: dict) -> list[tuple]:
    """Rows of (workload, metric, unit, base stats, change stats, delta, verdict)."""
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    rows = []
    workloads = sorted({r["facts"]["workload"] for r in base + change})
    for trace in (0, 1):
        for wl in workloads:
            b_runs = [r for r in base if r["facts"]["workload"] == wl and r["trace"] == trace]
            c_runs = [r for r in change if r["facts"]["workload"] == wl and r["trace"] == trace]
            if not (b_runs and c_runs):
                continue
            for spec in specs[trace]:
                name = spec["name"]
                b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
                c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
                if not (b and c):
                    rows.append((wl, name, spec["unit"], None, None, None, "absent"))
                    continue
                delta = _rel(statistics.median(c) - statistics.median(b), statistics.median(b))
                rows.append((wl, name, spec["unit"], (quartiles(b), len(b)),
                             (quartiles(c), len(c)), delta,
                             verdict(b, c, spec["better"], spec.get("bound"))))
    return rows


def _fmt(stats) -> str:
    if stats is None:
        return "-"
    (q1, med, q3), n = stats
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={n}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads(args.bench.read_text())
    rows = table(load(args.base), load(args.change), bench)
    if not rows:
        print("error: no workload has runs on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':15s} {'metric':34s} {'unit':7s} {'base median [q1, q3]':36s} "
          f"{'change median [q1, q3]':36s} {'delta':>8s}  verdict")
    for wl, name, unit, b, c, delta, v in rows:
        d = "-" if delta is None else f"{100 * delta:+.1f}%"
        print(f"{wl:15s} {name:34s} {unit:7s} {_fmt(b):36s} {_fmt(c):36s} {d:>8s}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
